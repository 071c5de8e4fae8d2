"""Run the gradplay command line as ``python -m gradplay``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
