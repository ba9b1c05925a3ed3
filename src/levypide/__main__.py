"""`python -m levypide`: the same command line as the `levypide` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
