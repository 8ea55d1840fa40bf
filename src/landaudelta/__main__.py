"""python -m landaudelta: the command-line front end (landaudelta.cli)."""

import sys

from .cli import main

sys.exit(main())
