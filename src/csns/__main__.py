"""`python -m csns`: the csns command line."""

from .cli import entry

entry()
