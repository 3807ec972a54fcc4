"""``python -m credaltrees``: the same command line as the ``credaltrees``
script."""

from .cli import main

if __name__ == "__main__":
    main()
