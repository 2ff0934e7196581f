"""`python -m ddwl`: the `ddwl` command line, for a checkout without the
console script."""

import sys

from .cli import main

sys.exit(main())
