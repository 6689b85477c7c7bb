"""Exception hierarchy shared across the package."""


class CfspectraError(Exception):
    """Base class for all library errors."""


class SizeCapError(CfspectraError):
    """An operation would enumerate or materialize more states than allowed."""


class InvalidElementError(CfspectraError):
    """An element does not belong to the group/module it was used with."""


class InvalidSubgroupError(CfspectraError):
    """A claimed subgroup is not closed under the group operations."""


class ConstructionError(CfspectraError):
    """A requested algebraic object could not be built."""


class ConsistencyError(CfspectraError):
    """An internal invariant failed; indicates a construction bug, never ignored."""


class ParameterError(CfspectraError):
    """Cut/stage parameters violate their preconditions."""


class ScheduleError(CfspectraError):
    """A tower schedule is malformed (non-monotone deltas, broken chaining, ...)."""


class LabelError(CfspectraError):
    """A stage label is incompatible with the stage shape or the algebra."""


class PairError(CfspectraError):
    """Two coordinate words cannot be compared (incompatible depths)."""


class LagRangeError(CfspectraError):
    """A correlation lag is outside the range resolvable at this depth."""


class CharacterTypeError(CfspectraError):
    """A character was supplied for the wrong group."""


class ConfigError(CfspectraError):
    """A config document has an unknown, missing or malformed key."""


class BundleError(CfspectraError):
    """A stored bundle file differs from the synthesis of the bundle's config."""
