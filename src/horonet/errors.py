"""Typed errors raised across the package.

Every exception carries a short machine-readable ``code`` (its class name)
so the CLI can emit structured error JSON and map classes to exit codes.
"""

from __future__ import annotations


class HoronetError(Exception):
    """Base class for all package errors."""

    exit_code = 1

    @property
    def code(self) -> str:
        return type(self).__name__


# mesh
class NotADisk(HoronetError):
    exit_code = 10


class InconsistentOrientation(HoronetError):
    exit_code = 12


class EmptyRegion(HoronetError):
    exit_code = 13


class BoundaryVertex(HoronetError):
    exit_code = 14


class BoundaryEdge(HoronetError):
    exit_code = 15


# moebius kernel
class DegenerateTriple(HoronetError):
    exit_code = 20


class SingularMatrix(HoronetError):
    exit_code = 21


class CoincidentPoints(HoronetError):
    exit_code = 22


class NonpositiveRadius(HoronetError):
    exit_code = 23


class NotInHyperboloid(HoronetError):
    exit_code = 24


# pattern
class DegenerateFace(HoronetError):
    exit_code = 30


class ClosureViolation(HoronetError):
    exit_code = 31


class DegenerateSeed(HoronetError):
    exit_code = 32


class NotDelaunay(HoronetError):
    exit_code = 33


# osculating
class MonodromyObstruction(HoronetError):
    exit_code = 40


class MeshMismatch(HoronetError):
    exit_code = 41


class CriticalPoint(HoronetError):
    exit_code = 42


# cmc1 / equidistant
class NotShearMatched(HoronetError):
    exit_code = 50


class NotAngleMatched(HoronetError):
    exit_code = 51


class NonIntersectingHorospheres(HoronetError):
    exit_code = 53


class OffsetTooLarge(HoronetError):
    exit_code = 55


class FrameUnavailable(HoronetError):
    exit_code = 56


class NotCMC1(HoronetError):
    exit_code = 57


class EtaNotClosed(HoronetError):
    exit_code = 58


class NotEquidistant(HoronetError):
    exit_code = 59


# toda
class TooSmall(HoronetError):
    exit_code = 70


class InconsistentLabeling(HoronetError):
    exit_code = 71


class PoleInFamily(HoronetError):
    exit_code = 72


class NotDelaunayAtT(HoronetError):
    exit_code = 73


# minimal
class InfinityInFace(HoronetError):
    exit_code = 80


# convergence
class FoldOver(HoronetError):
    exit_code = 90


class NewtonDiverged(HoronetError):
    exit_code = 91


class DelaunayViolated(HoronetError):
    exit_code = 92


class DomainExhausted(HoronetError):
    exit_code = 93
