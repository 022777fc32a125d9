"""Domain exceptions shared across the package.

Plain ValueError is used for programming-contract violations (bad shapes,
bad arguments); these classes cover data and configuration problems a
caller may reasonably want to catch and report.
"""


class BeatformerError(Exception):
    """Base class for package-specific failures."""


class FormatError(BeatformerError):
    """A file does not parse as the format it claims to be."""


class InvalidMetadataError(BeatformerError):
    """Header metadata is syntactically fine but unusable (gain 0, fs <= 0)."""


class InconsistencyError(BeatformerError):
    """Parts of a record disagree (lead lengths, sample counts, gain counts)."""


class EmptyInputError(BeatformerError):
    """An operation received nothing to work on: a record or signal with no
    samples, or a dataset with no usable sequence."""


class FilterDesignError(BeatformerError):
    """Requested filter cannot be realized (cutoff at or above Nyquist)."""


class NoBeatsError(BeatformerError):
    """No beats were detected; the recording cannot be tokenized."""


class CheckpointMismatchError(BeatformerError):
    """Checkpoint and requested configuration disagree.

    The message carries one line per differing field.
    """


class ConfigError(BeatformerError):
    """Bad pipeline configuration (unknown key, unparsable value)."""
