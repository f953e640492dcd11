"""``python -m modmacd``: the modmacd command (see cli)."""

from .cli import main

raise SystemExit(main())
