"""``python -m ebdyn``: the command line of :mod:`ebdyn.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
