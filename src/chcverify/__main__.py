"""`python -m chcverify FILE`: the command line front end (`driver.main`)."""

import sys

from .driver import main

if __name__ == "__main__":
    sys.exit(main())
