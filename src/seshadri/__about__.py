__version__ = "0.6.0"
