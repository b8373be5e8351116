"""Exception types and the memory guard shared across the package."""

import os


class ConfigError(Exception):
    """Raised when a run configuration or discretization is unusable."""


def require_memory(nbytes, what):
    """Raise ConfigError, before anything is allocated, when ``what``
    would need more than the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > have:
        raise ConfigError(f"{what} needs about {nbytes / 1e9:.3g} GB; "
                          f"physical memory is {have / 1e9:.3g} GB")
