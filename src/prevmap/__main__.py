"""``python -m prevmap``: the command-line interface, as the ``prevmap`` script."""

import sys

from .cli import main

sys.exit(main())
