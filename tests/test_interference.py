"""Interference-graph construction tests."""

import pytest

from repro.cfg import LivenessInfo
from repro.ptx import DType, Opcode, Reg, RegClass, parse_kernel
from repro.regalloc import build_interference, verify_coloring
from repro.regalloc.interference import InterferenceGraph
from tests.conftest import ANALYSIS_CORPUS, corpus_kernel


def graphs_of(text):
    kernel = parse_kernel(text)
    return build_interference(LivenessInfo(kernel))


class TestConstruction:
    def test_simultaneously_live_interfere(self):
        graphs = graphs_of(
            ".entry k ()\n{\n"
            "    mov.u32 %r0, %tid.x;\n"
            "    mov.u32 %r1, %ctaid.x;\n"
            "    add.u32 %r2, %r0, %r1;\n"
            "    add.u32 %r3, %r0, %r1;\n"
            "    add.u32 %r4, %r2, %r3;\n"
            "    exit;\n}"
        )
        g = graphs[RegClass.R32]
        assert g.interferes("%r0", "%r1")
        assert g.interferes("%r2", "%r3")

    def test_sequential_lives_do_not_interfere(self):
        graphs = graphs_of(
            ".entry k ()\n{\n"
            "    mov.u32 %r0, %tid.x;\n"
            "    add.u32 %r1, %r0, %r0;\n"
            "    add.u32 %r2, %r1, %r1;\n"
            "    exit;\n}"
        )
        g = graphs[RegClass.R32]
        assert not g.interferes("%r0", "%r2")

    def test_classes_are_separate_graphs(self):
        graphs = graphs_of(
            ".entry k ()\n{\n"
            "    mov.u32 %r0, %tid.x;\n"
            "    mov.f32 %f0, 1.0;\n"
            "    add.u32 %r1, %r0, %r0;\n"
            "    add.f32 %f1, %f0, %f0;\n"
            "    add.u32 %r2, %r1, %r0;\n"
            "    add.f32 %f2, %f1, %f0;\n"
            "    exit;\n}"
        )
        assert "%f0" in graphs[RegClass.F32]
        assert "%f0" not in graphs[RegClass.R32]
        assert "%r0" in graphs[RegClass.R32]

    def test_move_related_pairs_not_edges(self):
        graphs = graphs_of(
            ".entry k ()\n{\n"
            "    mov.u32 %r0, %tid.x;\n"
            "    mov.u32 %r1, %r0;\n"
            "    add.u32 %r2, %r1, %r1;\n"
            "    exit;\n}"
        )
        g = graphs[RegClass.R32]
        assert not g.interferes("%r0", "%r1")
        assert frozenset(("%r0", "%r1")) in g.move_pairs

    def test_pinned_interferes_with_all(self):
        text = (
            ".entry k ()\n{\n"
            "    mov.u32 %r0, %tid.x;\n"
            "    add.u32 %r1, %r0, %r0;\n"
            "    add.u32 %r2, %r1, %r1;\n"
            "    exit;\n}"
        )
        kernel = parse_kernel(text)
        graphs = build_interference(LivenessInfo(kernel), pinned={"%r2"})
        g = graphs[RegClass.R32]
        assert g.interferes("%r2", "%r0")
        assert g.interferes("%r2", "%r1")

    def test_weights_come_from_ranges(self, loop_kernel):
        info = LivenessInfo(loop_kernel)
        graphs = build_interference(info)
        for rc, graph in graphs.items():
            for name, node in graph.nodes.items():
                assert node.weight == pytest.approx(info.ranges[name].weight)


class TestVerifyColoring:
    def test_detects_conflict(self):
        g = InterferenceGraph(RegClass.R32)
        g.add_edge("a", "b")
        assert verify_coloring(g, {"a": 0, "b": 0}) == [("a", "b")]
        assert verify_coloring(g, {"a": 0, "b": 1}) == []

    def test_partial_coloring_ok(self):
        g = InterferenceGraph(RegClass.R32)
        g.add_edge("a", "b")
        assert verify_coloring(g, {"a": 0}) == []


class TestGraphOps:
    def test_degree(self):
        g = InterferenceGraph(RegClass.F32)
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.degree("a") == 2
        assert g.degree("b") == 1

    def test_self_edge_ignored(self):
        g = InterferenceGraph(RegClass.F32)
        g.add_edge("a", "a")
        assert "a" not in g or g.degree("a") == 0

    def test_spill_metric_prefers_cheap_high_degree(self):
        g = InterferenceGraph(RegClass.F32)
        g.add_node("cheap", weight=1.0)
        g.add_node("dear", weight=100.0)
        g.add_edge("cheap", "dear")
        assert g.nodes["cheap"].spill_metric() < g.nodes["dear"].spill_metric()


def _class_of(dtype):
    """A type's register class, by definition: predicates, f32 and f64
    have their own files; other 64-bit types take a 64-bit register and
    the rest a 32-bit one."""
    if dtype is DType.PRED:
        return RegClass.PRED
    if dtype is DType.F32:
        return RegClass.F32
    if dtype is DType.F64:
        return RegClass.F64
    return RegClass.R64 if dtype.value.endswith("64") else RegClass.R32


#: Register-to-register movs, which no corpus kernel contains: copies
#: whose source stays live (in a loop, across a class boundary) or dies.
MOVES_PTX = """
.entry moves (.param .u64 data)
{
    mov.u32 %r0, %tid.x;
    mov.u32 %r1, %r0;
    cvt.u64 %rd0, %r0;
    mov.u64 %rd1, data;
    mad.lo.u64 %rd2, %rd0, 4, %rd1;
    ld.global.f32 %f0, [%rd2];
    mov.f32 %f1, %f0;
$loop:
    setp.ge.u32 %p0, %r1, 64;
    @%p0 bra $done;
    mov.u32 %r2, %r1;
    add.u32 %r1, %r2, %r0;
    mov.f32 %f2, %f1;
    fma.f32 %f1, %f2, %f0, %f1;
    bra $loop;
$done:
    mov.f32 %f3, %f1;
    st.global.f32 [%rd2], %f3;
    ret;
}
"""


@pytest.mark.parametrize("name", ANALYSIS_CORPUS + ["moves"])
def test_edges_follow_the_def_vs_live_out_rule(name):
    """Each class graph holds exactly the pairs (def, name live out of
    the def) of one class, except a register mov's source."""
    kernel = parse_kernel(MOVES_PTX) if name == "moves" else corpus_kernel(name)
    info = LivenessInfo(kernel)
    graphs = build_interference(info)
    first_dtype = {}
    for inst in kernel.instructions():
        for reg in inst.regs():
            first_dtype.setdefault(reg.name, reg.dtype)
    rc_of = {n: _class_of(dtype) for n, dtype in first_dtype.items()}

    expected_edges = {rc: set() for rc in RegClass}
    expected_moves = {rc: set() for rc in RegClass}
    for pos, inst in enumerate(kernel.instructions()):
        move_src = None
        if inst.opcode is Opcode.MOV and isinstance(inst.srcs[0], Reg):
            move_src = inst.srcs[0].name
            if move_src != inst.dst.name and rc_of[move_src] is rc_of[inst.dst.name]:
                expected_moves[rc_of[move_src]].add(
                    frozenset((move_src, inst.dst.name))
                )
        for dreg in inst.defs():
            for other in info.live_out[pos]:
                if other in (dreg.name, move_src):
                    continue
                if rc_of[other] is rc_of[dreg.name]:
                    expected_edges[rc_of[other]].add(
                        frozenset((dreg.name, other))
                    )

    for rc, graph in graphs.items():
        assert set(graph.nodes) == {n for n in rc_of if rc_of[n] is rc}
        edges = {
            frozenset((a, b))
            for a, node in graph.nodes.items()
            for b in node.neighbors
        }
        assert edges == expected_edges[rc], rc
        for a, node in graph.nodes.items():
            assert node.reg_class is rc
            assert a not in node.neighbors
            for b in node.neighbors:
                assert a in graph.nodes[b].neighbors  # symmetric
        assert graph.move_pairs == expected_moves[rc], rc
