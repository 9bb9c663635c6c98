"""Exception hierarchy shared by all prosemph modules."""


class ProsemphError(Exception):
    """Base class for all toolkit errors."""


def describe(exc: Exception) -> str:
    """The one-line form of an item failure: "<Type>: <message>"."""
    return f"{type(exc).__name__}: {exc}"


class MalformedFileError(ProsemphError):
    """A file does not follow its documented schema or container format."""


class InconsistentAlignmentError(ProsemphError):
    """An utterance violates a structural invariant (spans, counts, times)."""


class CyclicDependencyError(ProsemphError):
    """The dependency head graph contains a cycle."""


class WordCountMismatchError(ProsemphError):
    """Annotation word count disagrees with the referenced utterance."""


class UnsupportedEncodingError(ProsemphError):
    """WAV encoding other than PCM16 / IEEE float32, or a sample rate the
    frame config cannot use (a hop under one sample, f0_max_hz at or above
    Nyquist)."""


class TooShortError(ProsemphError):
    """Waveform shorter than one analysis frame, or frame shorter than any F0 lag."""


class AllUnvoicedError(ProsemphError):
    """F0 track contains no voiced frame to interpolate from."""


class EmptyAlignmentError(ProsemphError):
    """Utterance character alignment covers no positive time span."""


class FrameRateMismatchError(ProsemphError):
    """Tracks being combined have different frame rates."""


class BandOutOfRangeError(ProsemphError):
    """Requested scale band indices fall outside the scalogram."""


class LengthMismatchError(ProsemphError):
    """Sequence length disagrees with the utterance structure."""


class DimMismatchError(ProsemphError):
    """Embedding or projection dimensions are inconsistent."""


class UnknownUtteranceError(ProsemphError):
    """Semantic provider has no vectors for the requested utterance."""


class EmptyDatasetError(ProsemphError):
    """Training requested on an empty dataset."""


class NonFiniteLossError(ProsemphError):
    """Training diverged: an epoch's mean loss is NaN or infinite (a learning
    rate too large, say). Training stops before logging that epoch."""


class UtteranceSetMismatchError(ProsemphError):
    """Predicted and gold label sets cover different utterances."""


class OutputWriteError(ProsemphError):
    """An output file cannot be cleared or written, or a value bound for it is
    NaN or infinite: an item's fails that item, a whole-run file (a result,
    failures.json, manifest.json) the run."""
