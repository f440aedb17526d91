"""Exception types shared across the package."""


class BlockmineError(Exception):
    """Base class for unreadable data, bad configuration and unwritable
    output. A call that breaks the Python API's contract raises ValueError."""


class ArchiveUnreadable(BlockmineError):
    """The file is neither a readable zip archive nor parseable JSON text."""


class MalformedProject(BlockmineError):
    """The archive exists but does not contain a usable Scratch 3 project."""


class DatasetEmpty(BlockmineError):
    """No archive in the dataset directory could be loaded."""


class InvalidConfig(BlockmineError):
    """A mining parameter is outside its legal range."""


class OutputUnwritable(BlockmineError):
    """An output file or directory cannot be created or written."""
