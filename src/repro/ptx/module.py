"""Kernel and module containers for the PTX-subset IR.

A :class:`Kernel` corresponds to one ``.entry`` in a PTX module: its
parameters, its local/shared array declarations (including spill stacks,
paper Listing 4), and its body of labels and instructions.

A kernel is immutable: its fields cannot be rebound and its parameters,
arrays and body are tuples.  A pass builds a new kernel
(``dataclasses.replace``), so a kernel may be shared by any number of
callers, and the facts of its own fields are computed once per kernel
object: :meth:`Kernel.instructions` and :meth:`Kernel.fingerprint`.
Analyses of a kernel (its CFG, liveness, verification reports) are not
kept on it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Optional, Set, Tuple

from .instruction import BodyItem, Instruction, Label, Reg, iter_instructions
from .isa import DType, RegClass, Space


@dataclasses.dataclass(frozen=True)
class Param:
    """A kernel parameter (always passed in ``.param`` space)."""

    name: str
    dtype: DType


@dataclasses.dataclass(frozen=True)
class ArrayDecl:
    """A declared array in local or shared memory.

    ``.local .align 4 .b8 SpillStack[40];`` declares a 40-byte spill
    stack in local memory (paper Listing 4).  Shared arrays model both
    application shared-memory use and Algorithm 1's shared sub-stacks.
    """

    name: str
    space: Space
    size_bytes: int
    align: int = 4

    def __post_init__(self) -> None:
        if self.space not in (Space.LOCAL, Space.SHARED):
            raise ValueError(f"arrays may only live in local/shared, got {self.space}")
        if self.size_bytes <= 0:
            raise ValueError("array size must be positive")


@dataclasses.dataclass(frozen=True)
class Kernel:
    """One GPU kernel in the PTX-subset IR (immutable).

    ``params``, ``arrays`` and ``body`` may be passed as any sequence;
    the kernel keeps them as tuples.
    """

    name: str
    params: Tuple[Param, ...] = ()
    arrays: Tuple[ArrayDecl, ...] = ()
    body: Tuple[BodyItem, ...] = ()
    block_size: int = 256

    def __post_init__(self) -> None:
        for name in ("params", "arrays", "body"):
            value = getattr(self, name)
            if type(value) is not tuple:
                object.__setattr__(self, name, tuple(value))

    def __getstate__(self):
        # The cached digest and instruction tuple stay out of pickles:
        # an entry holds the kernel's fields only.
        state = dict(self.__dict__)
        state.pop("_digest", None)
        state.pop("_instructions", None)
        return state

    # ------------------------------------------------------------------
    # Structural queries.
    # ------------------------------------------------------------------
    def instructions(self) -> Tuple[Instruction, ...]:
        """All instructions in body order (labels skipped), built once
        per kernel object."""
        instructions = self.__dict__.get("_instructions")
        if instructions is None:
            instructions = tuple(iter_instructions(self.body))
            object.__setattr__(self, "_instructions", instructions)
        return instructions

    def labels(self) -> List[str]:
        return [item.name for item in self.body if isinstance(item, Label)]

    def registers(self) -> Set[Reg]:
        """The set of distinct registers referenced anywhere in the body."""
        regs: Set[Reg] = set()
        for inst in self.instructions():
            regs.update(inst.regs())
        return regs

    def register_names(self) -> Set[str]:
        """The names of :meth:`registers`, as a new set per call, without
        hashing a :class:`Reg`."""
        return {
            reg.name for inst in self.instructions() for reg in inst.regs()
        }

    def register_count(self, reg_class: Optional[RegClass] = None) -> int:
        """Number of distinct registers, optionally filtered by class."""
        regs = self.registers()
        if reg_class is None:
            return len(regs)
        return sum(1 for r in regs if r.dtype.reg_class is reg_class)

    def register_slots(self) -> int:
        """32-bit register-file slots needed to hold every distinct register.

        64-bit registers cost two slots; predicates cost none (they live
        in a dedicated predicate file, as on hardware).  This is the raw
        SSA-style demand — the quantity the paper calls the register
        requirement *before* allocation.
        """
        return sum(r.dtype.reg_class.slots for r in self.registers())

    def shared_bytes(self) -> int:
        """Total declared shared-memory bytes per thread block (ShmSize)."""
        return sum(a.size_bytes for a in self.arrays if a.space is Space.SHARED)

    def local_bytes(self) -> int:
        """Total declared local-memory bytes per thread."""
        return sum(a.size_bytes for a in self.arrays if a.space is Space.LOCAL)

    def find_array(self, name: str) -> Optional[ArrayDecl]:
        for arr in self.arrays:
            if arr.name == name:
                return arr
        return None

    def validate_targets(self) -> None:
        """Raise if any branch targets a label that does not exist."""
        labels = set(self.labels())
        for inst in self.instructions():
            if inst.is_branch and inst.target not in labels:
                raise ValueError(
                    f"kernel {self.name}: branch to undefined label {inst.target!r}"
                )

    def fingerprint(self) -> str:
        """Stable content digest of the kernel (hex SHA-256).

        Hashes the canonical printed form (:func:`repro.ptx.printer.
        print_kernel`), which covers the name, parameters, block size,
        array declarations and every instruction — so two kernels that
        print identically (e.g. a parse→print round trip) share a
        fingerprint, and any semantic edit changes it.  This is the
        kernel component of the evaluation engine's cache keys.

        The kernel prints once: later calls return the digest of the
        first, which is sound because the kernel cannot change.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            from .printer import print_kernel

            digest = hashlib.sha256(
                print_kernel(self).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def __str__(self) -> str:
        from .printer import print_kernel

        return print_kernel(self)


@dataclasses.dataclass
class Module:
    """A PTX module: an ordered collection of kernels."""

    kernels: List[Kernel] = dataclasses.field(default_factory=list)

    def kernel(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel named {name!r}")

    def __str__(self) -> str:
        from .printer import print_module

        return print_module(self)


def fresh_register_namer(kernel: Kernel, reg_class: RegClass, dtype: DType):
    """Return a factory for fresh registers not colliding with the kernel.

    Used by spill-code insertion, which needs new addressing registers
    (paper Listing 4 introduces ``%d0`` for the spill-stack base).
    """
    existing = kernel.register_names()
    prefix = f"%{reg_class.value}"
    counter = 0

    def fresh() -> Reg:
        nonlocal counter
        while f"{prefix}{counter}" in existing:
            counter += 1
        name = f"{prefix}{counter}"
        existing.add(name)
        return Reg(name, dtype)

    return fresh
