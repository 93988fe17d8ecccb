"""Compass directions used throughout the environment.

The paper's compaction calls are written as ``compact(polycon, SOUTH, "poly")``;
this module defines the four compass directions with the vector arithmetic the
compactor and primitives need.  NORTH is +y, EAST is +x.

The derived values (``dx``, ``opposite``, ``axis``, ...) are plain member
attributes, set once at import: the compactor reads them in its per-pair
loops, where a property call through the enum machinery costs more than the
arithmetic it guards.
"""

from __future__ import annotations

import enum


class Axis(enum.Enum):
    """Coordinate axis; HORIZONTAL means motion along x.

    ``other`` is the perpendicular axis.
    """

    HORIZONTAL = "x"
    VERTICAL = "y"

    #: Identity hash: members are singletons, and the default enum hash
    #: (a Python-level ``hash(name)``) is slow on dictionary-key hot paths.
    __hash__ = object.__hash__


class Direction(enum.Enum):
    """One of the four compass directions.

    Members carry the unit vector of motion: compacting an object SOUTH moves
    it toward negative y until it abuts the existing structure.  Attributes:

    * ``dx``, ``dy`` — components of the unit vector;
    * ``opposite`` — the direction pointing the other way;
    * ``axis`` — the :class:`Axis` of motion;
    * ``is_positive`` — True for NORTH and EAST (toward +coordinates);
    * ``perpendiculars`` — the two orthogonal directions, negative first.
    """

    NORTH = (0, 1)
    SOUTH = (0, -1)
    EAST = (1, 0)
    WEST = (-1, 0)

    __hash__ = object.__hash__

    def __init__(self, dx: int, dy: int) -> None:
        self.dx = dx
        self.dy = dy
        self.axis = Axis.HORIZONTAL if dx else Axis.VERTICAL
        self.is_positive = dx + dy > 0

    @classmethod
    def from_name(cls, name: str) -> "Direction":
        """Parse a direction from its (case-insensitive) name.

        The PLDL interpreter uses this to resolve the bare words ``NORTH`` /
        ``SOUTH`` / ``EAST`` / ``WEST`` appearing in module source code.
        """
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown direction {name!r}") from None


Axis.HORIZONTAL.other = Axis.VERTICAL
Axis.VERTICAL.other = Axis.HORIZONTAL
for _direction in Direction:
    _direction.opposite = Direction((-_direction.dx, -_direction.dy))
    _direction.perpendiculars = (
        (Direction.SOUTH, Direction.NORTH)
        if _direction.axis is Axis.HORIZONTAL
        else (Direction.WEST, Direction.EAST)
    )
del _direction

#: Convenience aliases matching the paper's source-code examples.
NORTH = Direction.NORTH
SOUTH = Direction.SOUTH
EAST = Direction.EAST
WEST = Direction.WEST
