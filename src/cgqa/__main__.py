"""`python -m cgqa`: the command-line interface, without an install."""

import sys

from .cli import main

sys.exit(main())
