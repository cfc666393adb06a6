"""`python -m latticeobs <args>`: the same front end as the `latticeobs` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
