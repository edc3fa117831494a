"""``python -m sparsenlms``: the same command line as the ``sparsenlms`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
