"""``python -m pvdyn``: the command-line interface of ``pvdyn.cli``."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="pvdyn")
