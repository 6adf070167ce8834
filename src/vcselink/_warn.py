"""The one raise site of the package's warnings."""

import sys
import warnings


def warn(message: str) -> None:
    """Emit a ``UserWarning`` that names the first calling line outside
    vcselink: the line that called into the package, however deep the
    warning is raised."""
    level, frame = 2, sys._getframe(1)
    while frame is not None and (
            frame.f_globals.get("__name__", "").partition(".")[0] == "vcselink"):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)
