"""Pass validation (rules ``PL*``): did a rewrite preserve the
kernel's meaning?

:func:`verify_pass` runs on every individual rewrite a validating
:class:`~repro.ir.driver.GreedyRewriteDriver` applies (``--verify``
with ``--passes``, and ``repro verify --pipeline``, which runs
:data:`repro.ir.pipeline.VERIFIED_SPEC`), and, on a stage memo hit,
on every rewrite of the recorded chain that stands in for the run
(:func:`repro.ir.pipeline.replay_chain`), in the pattern's declared
``verify_mode``, checking three things:

``PL001``
    The transformed kernel still has a well-formed CFG (buildable,
    terminated, branch targets resolve).
``PL002``
    The **observable-effect summary** is preserved.  The summary is the
    ordered sequence of externally visible events — memory stores and
    barriers — with every operand reduced to a *value number* so that
    renaming, copy propagation, dead-code removal, and
    dependence-respecting reordering all leave it unchanged:

    * constants, special registers, and array symbols are their own
      value numbers;
    * an unguarded register-to-register ``mov`` is transparent (the
      destination inherits the source's number — exactly the copies
      ``copy-prop`` may rewrite);
    * pure ops hash over ``(opcode, operand numbers)``; guarded defs
      fold the incoming number in, so predicated merges stay distinct;
    * loads are *keyed unknowns* — ``(space, address, k-th occurrence
      in block)`` — not pure values, because memory may change between
      two loads of the same address;
    * a load's ``cache_op`` is **excluded** from its number, which is
      precisely what makes ``bypass`` (flip ``.ca``→``.cg``) an
      effect-neutral pass;
    * value numbering resets at labels; values flowing in from other
      blocks are numbered by (block tag, register name), which every
      exact-mode pass preserves because none of them renames across
      block boundaries or changes block structure.

    ``unroll`` replicates loop bodies, so its static store sequence
    legitimately changes; :class:`~repro.opt.unroll.UnrollPattern`
    declares *structure* mode, which skips the effect comparison and
    relies on ``PL001``/``PL003`` (its own dedicated tests carry the
    semantic weight).
``PL003``
    The pass introduced a dataflow error the input kernel did not have
    (e.g. deleted the only def of a live register).  Pre-existing
    findings are not re-reported — the dataflow verifier owns those.

Deliberate non-goals (DESIGN.md §6): guard feasibility (a store under
``@%p`` is an event parameterized by ``%p``'s value number, not a
maybe-event) and cross-block value merging (numbers are per-block; the
summary is sound because exact-mode passes keep block structure).

:func:`verify_pass` takes the two kernels, or the analysis contexts
of the two (:class:`~repro.ir.view.RewriteContext`).  A context
computes its kernel's CFG, dataflow report and effect summary once, on
first use, so the rewrite driver, which hands over one context per
kernel revision, checks each revision once however many rewrites it
borders; a chain replay does the same with one fresh context per
recorded revision.  A bare kernel gets a fresh context, used for this
call only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from ..ir.view import RewriteContext
from ..ptx.instruction import Imm, Label, Reg, Sreg, Sym
from ..ptx.isa import Opcode
from ..ptx.module import Kernel
from .dataflow import verify_dataflow
from .diagnostics import Diagnostic, VerifyReport

Value = Tuple[Any, ...]
Event = Tuple[Any, ...]


def effect_summary(kernel: Kernel) -> List[Event]:
    """The value-numbered sequence of observable events of ``kernel``."""
    events: List[Event] = []
    numbers: Dict[str, Value] = {}
    block_tag: Any = "entry"
    load_count: Dict[Value, int] = {}

    def value_of(operand: Any) -> Value:
        if isinstance(operand, Reg):
            vn = numbers.get(operand.name)
            if vn is None:
                vn = ("in", block_tag, operand.name)
                numbers[operand.name] = vn
            return vn
        if isinstance(operand, Imm):
            return ("imm", operand.dtype.value, operand.value)
        if isinstance(operand, Sreg):
            return ("sreg", operand.name)
        if isinstance(operand, Sym):
            return ("sym", operand.name)
        return ("opaque", str(operand))

    for item in kernel.body:
        if isinstance(item, Label):
            numbers.clear()
            load_count.clear()
            block_tag = item.name
            continue
        inst = item
        guard_vn: Optional[Value] = None
        if inst.guard is not None:
            guard_vn = (value_of(inst.guard), inst.guard_negated)

        if inst.opcode is Opcode.ST:
            assert inst.mem is not None
            addr = value_of(inst.mem.base)
            value = value_of(inst.srcs[0]) if inst.srcs else ("missing",)
            events.append((
                "st",
                inst.space.value if inst.space else None,
                inst.dtype.value if inst.dtype else None,
                addr,
                inst.mem.offset,
                value,
                guard_vn,
            ))
            continue
        if inst.opcode is Opcode.BAR:
            events.append(("bar", guard_vn))
            continue
        if inst.dst is None:
            continue  # bra/ret/exit: control structure, not an event

        if inst.opcode is Opcode.LD:
            assert inst.mem is not None
            # cache_op deliberately omitted: bypass is effect-neutral.
            key: Value = (
                "ld",
                inst.space.value if inst.space else None,
                inst.dtype.value if inst.dtype else None,
                value_of(inst.mem.base),
                inst.mem.offset,
            )
            occurrence = load_count.get(key, 0)
            load_count[key] = occurrence + 1
            new_vn: Value = key + (occurrence,)
        elif (
            inst.opcode is Opcode.MOV
            and inst.guard is None
            and len(inst.srcs) == 1
            and isinstance(inst.srcs[0], Reg)
            and inst.srcs[0].dtype.reg_class is inst.dst.dtype.reg_class
            and inst.srcs[0].dtype.bits == inst.dst.dtype.bits
        ):
            # Transparent copy — same conditions copy_prop rewrites.
            new_vn = value_of(inst.srcs[0])
        else:
            new_vn = (
                "op",
                inst.opcode.value,
                inst.dtype.value if inst.dtype else None,
                inst.cmp.value if inst.cmp else None,
                tuple(value_of(s) for s in inst.srcs),
            )
        if guard_vn is not None:
            # A predicated def merges with the incoming value.
            new_vn = ("phi", guard_vn, new_vn, value_of(inst.dst))
        numbers[inst.dst.name] = new_vn
    return events


def _dataflow(ctx: RewriteContext) -> VerifyReport:
    """``verify_dataflow(ctx.kernel)``, on the context's CFG when it
    builds (else ``verify_dataflow`` reports ``DF006`` without one, or
    raises as it does on the bare kernel)."""
    try:
        cfg = ctx.cfg
    except ValueError:
        return verify_dataflow(ctx.kernel)
    return verify_dataflow(ctx.kernel, cfg=cfg)


def _effects(ctx: RewriteContext) -> List[Event]:
    return effect_summary(ctx.kernel)


def verify_pass(
    before: Union[Kernel, RewriteContext],
    after: Union[Kernel, RewriteContext],
    stage: str,
    compare_effects: bool = True,
) -> VerifyReport:
    """Validate that transform ``stage`` turned ``before`` into a sound
    ``after`` (kernels, or their analysis contexts); returns the
    ``PL*`` report.  ``compare_effects=False`` (a pattern's
    ``structure`` mode) skips the ``PL002`` effect comparison."""
    before = RewriteContext.of(before)
    after = RewriteContext.of(after)
    name = after.kernel.name
    report = VerifyReport(kernel=name, stage=stage)

    try:
        after.cfg
    except ValueError as err:
        report.add(Diagnostic(
            rule="PL001", kernel=name, stage=stage,
            message=f"CFG malformed after {stage}: {err}",
        ))
        return report

    before_df: VerifyReport = before.cached(_dataflow, _dataflow)
    after_df: VerifyReport = after.cached(_dataflow, _dataflow)
    known = {(d.rule, d.data.get("register")) for d in before_df.errors}
    for diag in after_df.errors:
        if (diag.rule, diag.data.get("register")) in known:
            continue
        report.add(Diagnostic(
            rule="PL003", kernel=name, block=diag.block,
            position=diag.position, instruction=diag.instruction,
            stage=stage,
            message=f"{stage} introduced a dataflow error "
                    f"[{diag.rule}]: {diag.message}",
            data={"introduced_rule": diag.rule, **diag.data},
        ))
    if not report.ok:
        return report

    if compare_effects:
        old: List[Event] = before.cached(_effects, _effects)
        new: List[Event] = after.cached(_effects, _effects)
        if old != new:
            divergence = next(
                (i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                min(len(old), len(new)),
            )
            report.add(Diagnostic(
                rule="PL002", kernel=name, stage=stage,
                message=(
                    f"observable effects changed by {stage}: "
                    f"{len(old)} event(s) before vs {len(new)} after, "
                    f"first divergence at event {divergence}"
                ),
                data={
                    "events_before": len(old),
                    "events_after": len(new),
                    "divergence": divergence,
                    "before_event": _render_event(old, divergence),
                    "after_event": _render_event(new, divergence),
                },
            ))
    return report


def _render_event(events: List[Event], index: int) -> Optional[str]:
    if 0 <= index < len(events):
        return repr(events[index])
    return None
