"""``python -m mrcwpt``: the command-line interface."""

from .cli import entry

if __name__ == "__main__":
    entry()
