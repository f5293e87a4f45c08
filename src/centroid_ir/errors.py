"""Exception types shared across the package, and the UTF-8 text opener."""

from contextlib import contextmanager


class EngineError(Exception):
    """Base class for all errors raised by centroid_ir."""


class ParseError(EngineError):
    """A text input could not be parsed.

    Raised for malformed embedding files, run files, qrels files, IDF
    files, and corpus lines.  Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line_no: int | None = None, path=None):
        self.line_no = line_no
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}: "
        if line_no is not None:
            where += f"line {line_no}: "
        super().__init__(where + message)


class DimensionMismatch(EngineError):
    """Vectors of incompatible dimensionality were combined."""


class DuplicateId(EngineError):
    """A document or question id occurred more than once."""


class IndexFormatError(EngineError):
    """An index file is malformed, truncated, corrupt or of another version."""


class ConfigMismatch(EngineError):
    """A pipeline was configured inconsistently with its index."""


class UnknownIds(EngineError):
    """Ids referenced by a run could not be resolved.

    The offending ids are available as ``.ids``.
    """

    def __init__(self, message: str, ids):
        self.ids = sorted(ids)
        shown = ", ".join(self.ids[:10])
        if len(self.ids) > 10:
            shown += f", ... ({len(self.ids)} total)"
        super().__init__(f"{message}: {shown}")


class StateError(EngineError):
    """An operation was called before its prerequisites were established."""


class EvaluationError(EngineError):
    """A run and a qrels set share no question ids."""


def not_utf8(exc: UnicodeDecodeError, path, line_no: int | None = None) -> ParseError:
    """The :class:`ParseError` for bytes of ``path`` that are not UTF-8, naming
    line ``line_no`` when the caller decoded a line at a time (a codec's
    offset is into what it decoded, not into the file)."""
    return ParseError(f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})",
                      line_no=line_no, path=path)


@contextmanager
def open_text(path):
    """Open ``path`` as UTF-8 text; other bytes raise :func:`not_utf8`'s error."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise not_utf8(exc, path) from None
