"""``python -m twofst``: the command line of :mod:`twofst.cli`."""
from .cli import main

raise SystemExit(main())
