"""The one exception for input that comes from outside the program."""


class InputError(ValueError):
    """A file or field the user supplied is malformed, truncated or out
    of range. The command line maps it to exit code 2."""
