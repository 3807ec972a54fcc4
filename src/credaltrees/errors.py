"""Exception taxonomy shared by every layer of the package.

Anything raised on purpose derives from :class:`CredalTreeError`, so callers
(and the command line front end) can distinguish a rejected input from a bug.
"""

from __future__ import annotations


class CredalTreeError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DuplicateNodeId(CredalTreeError):
    """Two nodes in the same tree carry the same identifier."""


class DuplicateArcLabel(CredalTreeError):
    """Two arcs of one decision node carry the same label."""


class UnknownNode(CredalTreeError):
    """A node identifier does not occur in the tree it was looked up in."""


class OverlappingEvents(CredalTreeError):
    """Two sibling chance arcs cover a common atom inside the node's scope."""


class IncompletePartition(CredalTreeError):
    """The chance arcs at a node fail to cover the node's scope."""


class EmptyScope(CredalTreeError):
    """A node's scope is empty and the validation mode does not prune."""


class MixedRewardKinds(CredalTreeError):
    """A tree mixes numeric rewards with reward labels."""


class ScopeMismatch(CredalTreeError):
    """A gamble or event does not cover the event it is being used under."""


class ZeroProbabilityCondition(CredalTreeError):
    """A conditioning event has probability zero under some mass function."""


class MissingArcProbability(CredalTreeError):
    """A tree-factored assessment lacks probabilities for some chance node."""


class UnknownLabel(CredalTreeError):
    """A reward label has no value under some utility function."""


class PartitionInvalid(CredalTreeError):
    """A claimed partition of the possibility space is not a partition."""


class EmptyInput(CredalTreeError):
    """A choice function was asked to choose from an empty set of options."""


class ModeUnsupported(CredalTreeError):
    """The uncertainty model's mode is not accepted by the operation."""


class InstanceInvalid(CredalTreeError):
    """A canonical instance violates its structural invariants."""


class UnrepresentableGamble(CredalTreeError):
    """No strategy of the assessed tree realises the gamble being valued."""


class InconsistentAssessment(CredalTreeError):
    """Two parts of a tree-factored assessment value the same gamble differently."""


class TooManyStrategies(CredalTreeError):
    """A tree has more strategies than the caller allows enumerating."""


class FileFormatError(CredalTreeError):
    """A problem or model file does not conform to the documented schema."""
