"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class UnknownVariable(ToolkitError):
    pass


class UnknownState(ToolkitError):
    pass


class CycleError(ToolkitError):
    pass


class ShapeError(ToolkitError):
    pass


class SchemaMismatch(ToolkitError):
    pass


class EmptyDataset(ToolkitError):
    pass


class DuplicateParent(ToolkitError):
    pass


class MarginalMismatch(ToolkitError):
    pass


class UnparameterizedNetwork(ToolkitError):
    pass


class CardinalityMismatch(ToolkitError):
    pass


class ZeroEvidenceProbability(ToolkitError):
    pass


class StateSpaceTooLarge(ToolkitError):
    pass


class InsufficientData(ToolkitError):
    pass


class CyclicDraft(ToolkitError):
    def __init__(self, message, edges=()):
        super().__init__(message)
        self.edges = list(edges)


class VariableAliasUnknown(ToolkitError):
    pass


class ReplayMiss(ToolkitError):
    pass


class BackendError(ToolkitError):
    pass
