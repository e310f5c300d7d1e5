"""``python -m mucube``: the command-line interface of ``mucube.cli``."""

import sys

from .cli import main

sys.exit(main())
