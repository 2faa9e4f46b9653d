"""Statistical simulator for a driven three-level microwave photon
detector and the on-off-keyed communication link built on it."""

__version__ = "0.6.2"
