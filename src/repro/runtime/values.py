"""Runtime values for the Core-Java interpreters.

Primitive values are plain Python ints/bools wrapped for type clarity;
objects carry their class, field store, and -- in the region-based runtime
-- the region they were allocated into plus the full region bindings of
their class formals (the "type-passing" information that makes dynamic
dispatch and downcasts region-correct, cf. Boyapati et al. [7]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .regions_rt import RuntimeRegion

__all__ = ["Value", "VInt", "VBool", "VNull", "VObj", "Obj", "VVoid", "VOID_VALUE", "NULL_VALUE"]


class Value:
    """Base class of runtime values."""

    __slots__ = ()


@dataclass(frozen=True)
class VInt(Value):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VBool(Value):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class VVoid(Value):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class VNull(Value):
    def __str__(self) -> str:
        return "null"


VOID_VALUE = VVoid()
NULL_VALUE = VNull()


class Obj:
    """A heap object: class name, field store, region, region bindings."""

    __slots__ = ("class_name", "fields", "region", "region_bindings", "size")

    def __init__(
        self,
        class_name: str,
        fields: Dict[str, Value],
        region: Optional["RuntimeRegion"] = None,
        region_bindings: Optional[Dict[Any, "RuntimeRegion"]] = None,
    ):
        self.class_name = class_name
        self.fields = fields
        self.region = region
        self.region_bindings = region_bindings or {}
        # synthetic size model: a header plus one word per field
        self.size = 16 + 8 * len(fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f" in {self.region.name}" if self.region is not None else ""
        return f"<{self.class_name}{where}>"


@dataclass(frozen=True)
class VObj(Value):
    obj: Obj

    def __str__(self) -> str:
        return repr(self.obj)
